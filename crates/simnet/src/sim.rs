//! Discrete-event packet-level network simulator.
//!
//! This is the suite's stand-in for the paper's custom OMNeT++ simulator: it
//! generates the ground-truth per-flow mean delay and jitter labels that
//! RouteNet trains on.
//!
//! Model, matching the public RouteNet/KDN dataset generator:
//! - one flow per source/destination pair with non-zero demand,
//! - packet arrivals per flow: Poisson by default (deterministic and bursty
//!   ON/OFF processes available),
//! - packet sizes: exponential by default (deterministic and bimodal
//!   available), mean `mean_pkt_size_bits`,
//! - store-and-forward FIFO output queue per directed link, service time
//!   `size / capacity`, optional finite buffer with tail drop,
//! - per-link propagation delay added after service.
//!
//! With Poisson arrivals + exponential sizes + infinite buffers, a single
//! link is exactly an M/M/1 queue, which the property tests exploit to
//! validate the simulator against closed forms from [`crate::queueing`].

// A hot path: every bare index must be proven in bounds or replaced by
// `.get()`.
#![deny(clippy::indexing_slicing)]

use crate::stats::{DelayAccumulator, FlowStats, SimResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use routenet_netgraph::{Graph, LinkId, NodeId, RoutingScheme, TrafficMatrix};
use routenet_obs::{Event, Telemetry};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Instant;

/// Packet-size distribution (mean fixed by `SimConfig::mean_pkt_size_bits`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SizeDistribution {
    /// Exponential with the configured mean (the M/M/1-compatible default).
    Exponential,
    /// Every packet has exactly the mean size.
    Deterministic,
    /// Two sizes: `small_frac * mean` with probability `p_small`, and a large
    /// size chosen so the overall mean is preserved.
    Bimodal {
        /// Probability of a small packet.
        p_small: f64,
        /// Small size as a fraction of the mean (in `(0, 1)`).
        small_frac: f64,
    },
}

/// Per-flow packet arrival process (average rate fixed by the traffic matrix).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Poisson arrivals (exponential inter-arrival times). Default.
    Poisson,
    /// Constant inter-arrival times `1/rate`.
    Deterministic,
    /// Exponential ON/OFF bursts: during ON periods packets arrive as a
    /// Poisson process at a boosted rate so the long-run average matches the
    /// demand; OFF periods are silent.
    OnOff {
        /// Mean ON-period length, seconds.
        on_mean_s: f64,
        /// Mean OFF-period length, seconds.
        off_mean_s: f64,
    },
}

/// Simulator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Total simulated time during which packets are generated, seconds.
    pub duration_s: f64,
    /// Packets generated before this time are excluded from statistics
    /// (queue warm-up), seconds.
    pub warmup_s: f64,
    /// Mean packet size, bits.
    pub mean_pkt_size_bits: f64,
    /// Packet-size distribution.
    pub size_dist: SizeDistribution,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Per-link buffer capacity in packets (including the one in service);
    /// `None` = infinite (the KDN dataset setting).
    pub buffer_pkts: Option<usize>,
    /// RNG seed; equal seeds give bit-identical results.
    pub seed: u64,
    /// Telemetry handle: when enabled, each run emits one
    /// [`Event::SimRun`] with cost metrics (events/s, packet counts, the
    /// most events queued at once, wall-clock). Never serialized
    /// (`#[serde(skip)]`) and never consulted inside the event loop — the
    /// per-event counters aggregate locally and flush once at run end.
    #[serde(skip)]
    pub telemetry: Telemetry,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            duration_s: 120.0,
            warmup_s: 10.0,
            mean_pkt_size_bits: 1_000.0,
            size_dist: SizeDistribution::Exponential,
            arrivals: ArrivalProcess::Poisson,
            buffer_pkts: None,
            seed: 1,
            telemetry: Telemetry::disabled(),
        }
    }
}

impl SimConfig {
    /// Reject a window, packet size, distribution or buffer the simulator
    /// cannot run: a non-finite or non-positive `duration_s`, a `warmup_s`
    /// outside `[0, duration_s)`, and so on. [`simulate`] calls it first, so
    /// a front-end can call it before it creates any output.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(self.duration_s.is_finite() && self.duration_s > 0.0) {
            return Err(SimError::BadConfig(format!(
                "duration_s = {}",
                self.duration_s
            )));
        }
        if !(self.warmup_s.is_finite() && self.warmup_s >= 0.0 && self.warmup_s < self.duration_s) {
            return Err(SimError::BadConfig(format!(
                "warmup_s = {} (duration {})",
                self.warmup_s, self.duration_s
            )));
        }
        if !(self.mean_pkt_size_bits.is_finite() && self.mean_pkt_size_bits > 0.0) {
            return Err(SimError::BadConfig(format!(
                "mean_pkt_size_bits = {}",
                self.mean_pkt_size_bits
            )));
        }
        if let SizeDistribution::Bimodal {
            p_small,
            small_frac,
        } = self.size_dist
        {
            if !(0.0..1.0).contains(&p_small) || !(0.0..1.0).contains(&small_frac) {
                return Err(SimError::BadConfig(format!(
                    "bimodal p_small={p_small} small_frac={small_frac}"
                )));
            }
        }
        if let ArrivalProcess::OnOff {
            on_mean_s,
            off_mean_s,
        } = self.arrivals
        {
            if !(on_mean_s > 0.0
                && off_mean_s >= 0.0
                && on_mean_s.is_finite()
                && off_mean_s.is_finite())
            {
                return Err(SimError::BadConfig(format!(
                    "onoff on={on_mean_s} off={off_mean_s}"
                )));
            }
        }
        if self.buffer_pkts == Some(0) {
            return Err(SimError::BadConfig("buffer_pkts = 0".into()));
        }
        Ok(())
    }
}

/// Simulation error.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Traffic matrix size does not match the graph.
    SizeMismatch {
        /// Nodes in the graph.
        graph_nodes: usize,
        /// Nodes the traffic matrix was built for.
        tm_nodes: usize,
    },
    /// Configuration value out of range.
    BadConfig(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::SizeMismatch {
                graph_nodes,
                tm_nodes,
            } => write!(
                f,
                "traffic matrix for {tm_nodes} nodes used with {graph_nodes}-node graph"
            ),
            SimError::BadConfig(msg) => write!(f, "bad simulator config: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// One pending event, 24 bytes: the `(time, seq)` key and what it is for.
///
/// `time` holds the event time's raw `f64` bits. Every event time is finite
/// and at least +0.0 (see [`HeapEvent::new`]), and for such values the bits
/// order exactly like the numbers, so the key compares as two integers.
#[derive(Debug, Clone, Copy)]
struct HeapEvent {
    time: u64,
    /// Insertion sequence: the tie-break between equal times.
    seq: u64,
    /// `flow << 1` for a flow's next source arrival, `slot << 1 | 1` for the
    /// packet in that [`Slab`] slot reaching its next hop.
    id: u64,
}

const _: () = assert!(std::mem::size_of::<HeapEvent>() == 24);

/// What a [`HeapEvent`] is for.
enum Target {
    /// Generate the next packet of this flow and schedule its successor.
    Source(usize),
    /// The packet in this slab slot reaches the queue of its next hop.
    Packet(usize),
}

impl HeapEvent {
    fn new(time: f64, seq: u64, id: u64) -> Self {
        // INVARIANT: event times start at +0.0 and only ever add finite
        // non-negative amounts (validated link delays, service times,
        // inter-arrival gaps), so -0.0, NaN and infinities cannot arise.
        debug_assert!(
            time.is_finite() && time.is_sign_positive(),
            "event time {time} breaks the integer key order"
        );
        HeapEvent {
            time: time.to_bits(),
            seq,
            id,
        }
    }

    fn source(time: f64, seq: u64, flow: usize) -> Self {
        Self::new(time, seq, (flow as u64) << 1)
    }

    fn packet(time: f64, seq: u64, slot: usize) -> Self {
        Self::new(time, seq, (slot as u64) << 1 | 1)
    }

    fn time(&self) -> f64 {
        f64::from_bits(self.time)
    }

    fn target(&self) -> Target {
        let index = (self.id >> 1) as usize;
        if self.id & 1 == 0 {
            Target::Source(index)
        } else {
            Target::Packet(index)
        }
    }
}

impl PartialEq for HeapEvent {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl Eq for HeapEvent {}

impl Ord for HeapEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert for earliest-first, tie-break on
        // insertion sequence for full determinism.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl PartialOrd for HeapEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A packet in flight: its next event is reaching `path[hop]` of its flow.
struct Packet {
    flow: u32,
    hop: u16,
    size_bits: f64,
    gen_time: f64,
}

/// In-flight packets, addressed by the slot in their event id. Freed slots
/// are reused first, so the slab grows with the most packets in flight at
/// once, not with the packets generated.
#[derive(Default)]
struct Slab {
    packets: Vec<Packet>,
    free: Vec<usize>,
}

impl Slab {
    fn insert(&mut self, p: Packet) -> usize {
        match self.free.pop() {
            Some(slot) => {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "free only holds slots below packets.len()"
                )]
                let old = &mut self.packets[slot];
                *old = p;
                slot
            }
            None => {
                self.packets.push(p);
                self.packets.len() - 1
            }
        }
    }

    fn get_mut(&mut self, slot: usize) -> &mut Packet {
        #[expect(
            clippy::indexing_slicing,
            reason = "events only carry slots returned by insert and not yet removed"
        )]
        let p = &mut self.packets[slot];
        p
    }

    fn remove(&mut self, slot: usize) {
        self.free.push(slot);
    }
}

struct Flow {
    src: NodeId,
    dst: NodeId,
    rate_pps: f64,
    path: Vec<LinkId>,
    /// ON/OFF process state: end of the current period (ON if `in_on`).
    in_on: bool,
    period_end: f64,
    acc: DelayAccumulator,
    dropped: u64,
}

struct LinkState {
    capacity_bps: f64,
    prop_delay_s: f64,
    /// Completion time of the last scheduled service.
    busy_until: f64,
    /// Departure times of queued and in-service packets, oldest first,
    /// pruned from the front; its length is the current occupancy. Kept only
    /// with a finite buffer. A FIFO link's departures never decrease, so the
    /// front is always the earliest.
    departures: VecDeque<f64>,
    /// Accumulated busy (service) time clipped to the measurement window:
    /// each service interval contributes exactly its overlap with
    /// `[warmup_s, duration_s)`, so `busy_time_s / window <= 1` holds by
    /// construction (no clamping needed).
    busy_time_s: f64,
    /// Accumulated per-packet sojourn (wait + service) within the window;
    /// `sojourn_time_s / window` is the time-average system occupancy
    /// (Little's law), `sojourn_time_s / sojourn_count` the mean sojourn.
    sojourn_time_s: f64,
    /// Packets contributing to `sojourn_time_s`.
    sojourn_count: u64,
}

/// Run one simulation. Flows are created for every pair with demand > 0.
///
/// Statistics cover packets *generated* in `[warmup_s, duration_s)`; all
/// generated packets are drained to their destination before returning, so
/// no measured packet is lost to the horizon.
pub fn simulate(
    g: &Graph,
    routing: &RoutingScheme,
    tm: &TrafficMatrix,
    cfg: &SimConfig,
) -> Result<SimResult, SimError> {
    cfg.validate()?;
    if tm.n_nodes() != g.n_nodes() {
        return Err(SimError::SizeMismatch {
            graph_nodes: g.n_nodes(),
            tm_nodes: tm.n_nodes(),
        });
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut flows: Vec<Flow> = Vec::new();
    debug_assert!(
        cfg.mean_pkt_size_bits > 0.0,
        "SimConfig::validate invariant"
    );
    for (s, d, demand) in tm.entries() {
        if demand > 0.0 {
            flows.push(Flow {
                src: s,
                dst: d,
                rate_pps: demand / cfg.mean_pkt_size_bits,
                path: routing.path(s, d).to_vec(),
                in_on: true,
                period_end: 0.0,
                acc: DelayAccumulator::new(),
                dropped: 0,
            });
        }
    }

    // One validation pass up front makes every event-loop access infallible:
    // flow ids fit the compact u32 packet encoding, hop counters fit u16,
    // and every link on a path resolves against this graph with a capacity
    // and a delay that keep event times finite and ordered.
    if u32::try_from(flows.len()).is_err() {
        return Err(SimError::BadConfig(format!(
            "{} flows exceed the u32 packet encoding",
            flows.len()
        )));
    }
    for f in &flows {
        if f.path.len() >= usize::from(u16::MAX) {
            return Err(SimError::BadConfig(format!(
                "path for {}->{} has {} hops, exceeding the u16 hop counter",
                f.src,
                f.dst,
                f.path.len()
            )));
        }
        for &lid in &f.path {
            let Ok(l) = g.link(lid) else {
                return Err(SimError::BadConfig(format!(
                    "routing path for {}->{} references {lid} outside the graph",
                    f.src, f.dst
                )));
            };
            if !(l.capacity_bps.is_finite() && l.capacity_bps > 0.0) {
                return Err(SimError::BadConfig(format!(
                    "{lid} on the path for {}->{} has capacity_bps = {}",
                    f.src, f.dst, l.capacity_bps
                )));
            }
            if !(l.prop_delay_s.is_finite() && l.prop_delay_s >= 0.0) {
                return Err(SimError::BadConfig(format!(
                    "{lid} on the path for {}->{} has prop_delay_s = {}",
                    f.src, f.dst, l.prop_delay_s
                )));
            }
        }
    }

    let mut links: Vec<LinkState> = g
        .links()
        .map(|(_, l)| LinkState {
            capacity_bps: l.capacity_bps,
            prop_delay_s: l.prop_delay_s,
            busy_until: 0.0,
            departures: VecDeque::new(),
            busy_time_s: 0.0,
            sojourn_time_s: 0.0,
            sojourn_count: 0,
        })
        .collect();

    // Events pop in `(time, seq)` order, each seq minted once from this
    // counter (see DESIGN.md, "Simulator event order").
    let mut heap: BinaryHeap<HeapEvent> = BinaryHeap::with_capacity(flows.len());
    let mut seq: u64 = 0;
    let mut packets = Slab::default();

    // Initial arrivals.
    for (i, f) in flows.iter_mut().enumerate() {
        if f.rate_pps > 0.0 {
            let t = next_arrival_time(0.0, f, &cfg.arrivals, &mut rng);
            heap.push(HeapEvent::source(t, seq, i));
            seq += 1;
        }
    }

    let mut events_processed: u64 = 0;
    let mut total_packets: u64 = 0;
    // Telemetry cost metrics aggregate into plain locals: the event loop
    // never calls into the registry (overhead budget; `tests/alloc_counts.rs`
    // pins that the loop does not allocate per event). The high-water
    // compare is unconditional — cheaper than a branch on the telemetry
    // handle and identical for every run.
    let mut heap_high_water: usize = 0;
    let wall_start = cfg.telemetry.enabled().then(Instant::now);

    // Each event either overwrites the top of the heap with its follow-up
    // (one sift-down) or, when it has none, pops it.
    while let Some(&event) = heap.peek() {
        heap_high_water = heap_high_water.max(heap.len());
        let now = event.time();
        events_processed += 1;
        match event.target() {
            Target::Source(i) => {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "events only carry flow ids minted from this flows vec"
                )]
                let f = &mut flows[i];
                // Generate this packet (if within horizon) and schedule next.
                if now >= cfg.duration_s {
                    heap.pop();
                    continue;
                }
                let size_bits = sample_size(cfg, &mut rng);
                total_packets += 1;
                // Hop 0 takes its seq before the next arrival does, exactly
                // as if it had been pushed first.
                let hop0_seq = seq;
                seq += 1;
                let t = next_arrival_time(now, f, &cfg.arrivals, &mut rng);
                if t < cfg.duration_s {
                    replace_top(&mut heap, HeapEvent::source(t, seq, i));
                    seq += 1;
                } else {
                    heap.pop();
                }
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "flow count validated against u32::MAX above"
                )]
                let mut packet = Packet {
                    flow: i as u32,
                    hop: 0,
                    size_bits,
                    gen_time: now,
                };
                // Hop 0 would pop next unless another queued event shares
                // this instant (all of them hold smaller seqs but the next
                // arrival's); then it waits its turn in the heap.
                if heap.peek().is_some_and(|e| e.time == now.to_bits()) {
                    let slot = packets.insert(packet);
                    heap.push(HeapEvent::packet(now, hop0_seq, slot));
                    continue;
                }
                events_processed += 1;
                match arrive(f, &mut links, cfg, &packet, now) {
                    Fate::Forward(t) => {
                        packet.hop = 1;
                        let slot = packets.insert(packet);
                        heap.push(HeapEvent::packet(t, seq, slot));
                        seq += 1;
                    }
                    Fate::Delivered => events_processed += 1,
                    Fate::Gone => {}
                }
            }
            Target::Packet(slot) => {
                let packet = packets.get_mut(slot);
                #[expect(
                    clippy::indexing_slicing,
                    reason = "packets only carry flow ids minted from this flows vec"
                )]
                let f = &mut flows[packet.flow as usize];
                match arrive(f, &mut links, cfg, packet, now) {
                    Fate::Forward(t) => {
                        packet.hop += 1;
                        replace_top(&mut heap, HeapEvent::packet(t, seq, slot));
                        seq += 1;
                    }
                    fate => {
                        events_processed += u64::from(matches!(fate, Fate::Delivered));
                        packets.remove(slot);
                        heap.pop();
                    }
                }
            }
        }
    }

    let window_s = (cfg.duration_s - cfg.warmup_s).max(0.0);
    let flow_stats: Vec<FlowStats> = flows
        .into_iter()
        .map(|f| FlowStats {
            src: f.src,
            dst: f.dst,
            delivered: f.acc.count(),
            dropped: f.dropped,
            mean_delay_s: f.acc.mean().unwrap_or(0.0),
            jitter_s2: f.acc.variance().unwrap_or(0.0),
        })
        .collect();
    let link_utilization = links
        .iter()
        .map(|l| {
            if window_s > 0.0 {
                let util = l.busy_time_s / window_s;
                // INVARIANT: busy time is accumulated as window overlap, so
                // it can never exceed the window itself (ε for accumulated
                // float rounding over millions of service intervals).
                debug_assert!(util <= 1.0 + 1e-9, "link utilization {util} > 1");
                util
            } else {
                0.0
            }
        })
        .collect();
    let link_mean_occupancy = links
        .iter()
        .map(|l| {
            if window_s > 0.0 {
                l.sojourn_time_s / window_s
            } else {
                0.0
            }
        })
        .collect();
    let link_mean_sojourn_s = links
        .iter()
        .map(|l| {
            if l.sojourn_count > 0 {
                l.sojourn_time_s / l.sojourn_count as f64
            } else {
                0.0
            }
        })
        .collect();

    if let Some(t0) = wall_start {
        let wall_s = t0.elapsed().as_secs_f64();
        let (delivered, dropped) = flow_stats
            .iter()
            .fold((0u64, 0u64), |(d, x), f| (d + f.delivered, x + f.dropped));
        cfg.telemetry.emit(Event::SimRun {
            events: events_processed,
            events_per_s: events_processed as f64 / wall_s.max(1e-9),
            packets_generated: total_packets,
            packets_delivered: delivered,
            packets_dropped: dropped,
            heap_high_water,
            wall_s,
        });
        cfg.telemetry.counter_add("sim.runs", 1);
        cfg.telemetry.counter_add("sim.events", events_processed);
        cfg.telemetry.counter_add("sim.packets_dropped", dropped);
        cfg.telemetry.observe_s("sim.run_s", wall_s);
    }

    Ok(SimResult {
        flows: flow_stats,
        link_utilization,
        link_mean_occupancy,
        link_mean_sojourn_s,
        total_packets,
        events_processed,
    })
}

/// Overwrite the earliest event, the one being handled, with its follow-up:
/// one sift-down instead of a pop and a push.
fn replace_top(heap: &mut BinaryHeap<HeapEvent>, next: HeapEvent) {
    if let Some(mut top) = heap.peek_mut() {
        *top = next;
    }
}

/// What becomes of a packet that reaches a hop.
enum Fate {
    /// It joined the queue of `path[hop]` and reaches its next hop at this
    /// time.
    Forward(f64),
    /// It joined the queue of its last link and its delay is already
    /// recorded: the delivery is known once the departure is, so no event
    /// is queued for it.
    Delivered,
    /// It was dropped at a full buffer, or reached the end of an empty path.
    Gone,
}

/// `packet` reaches hop `packet.hop` of flow `f` at `now`: it is dropped at
/// a full buffer or joins the link's FIFO queue.
fn arrive(
    f: &mut Flow,
    links: &mut [LinkState],
    cfg: &SimConfig,
    packet: &Packet,
    now: f64,
) -> Fate {
    let measured = packet.gen_time >= cfg.warmup_s;
    let hop = usize::from(packet.hop);
    let Some(&lid) = f.path.get(hop) else {
        // Only an empty path ends here: every other packet is delivered
        // from its last link.
        if measured {
            f.acc.record(now - packet.gen_time);
        }
        return Fate::Gone;
    };
    #[expect(
        clippy::indexing_slicing,
        reason = "path link ids validated against g.n_links() at entry"
    )]
    let link = &mut links[lid.0];
    if let Some(cap) = cfg.buffer_pkts {
        // Prune departures that already happened.
        while link.departures.front().is_some_and(|&t| t <= now) {
            link.departures.pop_front();
        }
        if link.departures.len() >= cap {
            if measured {
                f.dropped += 1;
            }
            return Fate::Gone;
        }
    }
    debug_assert!(
        link.capacity_bps > 0.0,
        "simulate validates every path link's capacity"
    );
    let service = packet.size_bits / link.capacity_bps;
    let start = now.max(link.busy_until);
    let depart = start + service;
    link.busy_until = depart;
    if cfg.buffer_pkts.is_some() {
        link.departures.push_back(depart);
    }
    // Utilization accounting must clip the *service interval* to the
    // measurement window, not gate on when the packet was generated: a
    // pre-warmup packet served inside the window contributes its in-window
    // part, and a measured packet whose service drains past the horizon
    // contributes only up to `duration_s`. Gating on `measured` both missed
    // the former and over-counted the latter, producing utilization > 1
    // under overload (previously masked by a `.min(1.0)`).
    let overlap = depart.min(cfg.duration_s) - start.max(cfg.warmup_s);
    if overlap > 0.0 {
        link.busy_time_s += overlap;
    }
    if measured {
        link.sojourn_time_s += depart - now;
        link.sojourn_count += 1;
    }
    let next = depart + link.prop_delay_s;
    if hop + 1 < f.path.len() {
        return Fate::Forward(next);
    }
    // A flow's packets share their last link, whose departures never
    // decrease, so recording here keeps each flow's delays in delivery
    // order; the Welford sums depend on that order.
    if measured {
        f.acc.record(next - packet.gen_time);
    }
    Fate::Delivered
}

fn exp_sample<R: Rng>(rate: f64, rng: &mut R) -> f64 {
    debug_assert!(rate > 0.0);
    let u: f64 = rng.gen();
    let survival = 1.0 - u;
    debug_assert!(
        survival > 0.0,
        "gen() samples [0, 1), so 1-u stays positive"
    );
    -survival.ln() / rate
}

fn sample_size<R: Rng>(cfg: &SimConfig, rng: &mut R) -> f64 {
    let mean = cfg.mean_pkt_size_bits;
    debug_assert!(mean > 0.0, "SimConfig::validate invariant");
    match cfg.size_dist {
        SizeDistribution::Exponential => exp_sample(1.0 / mean, rng),
        SizeDistribution::Deterministic => mean,
        SizeDistribution::Bimodal {
            p_small,
            small_frac,
        } => {
            let small = small_frac * mean;
            let p_large = 1.0 - p_small;
            debug_assert!(p_large > 0.0, "SimConfig::validate bounds p_small below 1");
            let large = (mean - p_small * small) / p_large;
            if rng.gen::<f64>() < p_small {
                small
            } else {
                large
            }
        }
    }
}

/// Next packet time for `flow` strictly after `now`.
fn next_arrival_time<R: Rng>(now: f64, f: &mut Flow, proc: &ArrivalProcess, rng: &mut R) -> f64 {
    debug_assert!(f.rate_pps > 0.0, "flows are only created for demand > 0");
    match *proc {
        ArrivalProcess::Poisson => now + exp_sample(f.rate_pps, rng),
        ArrivalProcess::Deterministic => now + 1.0 / f.rate_pps,
        ArrivalProcess::OnOff {
            on_mean_s,
            off_mean_s,
        } => {
            // Rate during ON chosen so the long-run average equals rate_pps.
            debug_assert!(
                on_mean_s > 0.0 && off_mean_s >= 0.0,
                "SimConfig::validate invariant"
            );
            let duty = on_mean_s / (on_mean_s + off_mean_s);
            debug_assert!(duty > 0.0);
            let burst_rate = f.rate_pps / duty;
            let mut t = now;
            loop {
                if t >= f.period_end {
                    // Start a new period where we stand.
                    // 0.0 is the exact never-initialized sentinel assigned at
                    // flow creation.
                    if f.period_end == 0.0 {
                        f.in_on = true; // all flows start ON at t=0
                    } else {
                        f.in_on = !f.in_on;
                    }
                    let mean = if f.in_on {
                        on_mean_s
                    } else {
                        off_mean_s.max(1e-12)
                    };
                    debug_assert!(mean > 0.0);
                    f.period_end = t + exp_sample(1.0 / mean, rng);
                    continue;
                }
                if f.in_on {
                    let cand = t + exp_sample(burst_rate, rng);
                    if cand < f.period_end {
                        return cand;
                    }
                    t = f.period_end;
                } else {
                    t = f.period_end;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routenet_netgraph::routing::shortest_path_routing;
    use routenet_netgraph::topology::nsfnet;
    use routenet_netgraph::Graph;

    fn one_link_graph(cap_bps: f64) -> (Graph, RoutingScheme) {
        let mut g = Graph::new("1link", 2);
        g.add_duplex(NodeId(0), NodeId(1), cap_bps, 0.0).unwrap();
        let r = shortest_path_routing(&g).unwrap();
        (g, r)
    }

    fn single_flow_tm(n: usize, s: usize, d: usize, bps: f64) -> TrafficMatrix {
        let mut tm = TrafficMatrix::zeros(n);
        tm.set_demand(NodeId(s), NodeId(d), bps);
        tm
    }

    #[test]
    fn empty_traffic_produces_no_packets() {
        let (g, r) = one_link_graph(10_000.0);
        let tm = TrafficMatrix::zeros(2);
        let res = simulate(&g, &r, &tm, &SimConfig::default()).unwrap();
        assert_eq!(res.total_packets, 0);
        assert!(res.flows.is_empty());
    }

    #[test]
    fn deterministic_low_load_has_pure_service_delay() {
        // Deterministic arrivals at 1 pps, deterministic 1000-bit packets,
        // 10 kbps link => service 0.1 s, no queueing at 10% load.
        let (g, r) = one_link_graph(10_000.0);
        let tm = single_flow_tm(2, 0, 1, 1_000.0);
        let cfg = SimConfig {
            duration_s: 200.0,
            warmup_s: 10.0,
            size_dist: SizeDistribution::Deterministic,
            arrivals: ArrivalProcess::Deterministic,
            ..SimConfig::default()
        };
        let res = simulate(&g, &r, &tm, &cfg).unwrap();
        let f = res.flow(NodeId(0), NodeId(1)).unwrap();
        assert!(f.delivered > 150);
        assert!(
            (f.mean_delay_s - 0.1).abs() < 1e-9,
            "mean {}",
            f.mean_delay_s
        );
        assert!(f.jitter_s2 < 1e-18);
        assert_eq!(f.dropped, 0);
    }

    #[test]
    fn propagation_delay_is_added() {
        let mut g = Graph::new("pd", 2);
        g.add_duplex(NodeId(0), NodeId(1), 10_000.0, 0.25).unwrap();
        let r = shortest_path_routing(&g).unwrap();
        let tm = single_flow_tm(2, 0, 1, 1_000.0);
        let cfg = SimConfig {
            size_dist: SizeDistribution::Deterministic,
            arrivals: ArrivalProcess::Deterministic,
            ..SimConfig::default()
        };
        let res = simulate(&g, &r, &tm, &cfg).unwrap();
        let f = res.flow(NodeId(0), NodeId(1)).unwrap();
        assert!((f.mean_delay_s - 0.35).abs() < 1e-9);
    }

    #[test]
    fn mm1_mean_delay_within_tolerance() {
        // lambda = 5 pps (5000 bps / 1000 bits), mu = 10 pps => sojourn 0.2 s.
        let (g, r) = one_link_graph(10_000.0);
        let tm = single_flow_tm(2, 0, 1, 5_000.0);
        let cfg = SimConfig {
            duration_s: 4_000.0,
            warmup_s: 200.0,
            seed: 42,
            ..SimConfig::default()
        };
        let res = simulate(&g, &r, &tm, &cfg).unwrap();
        let f = res.flow(NodeId(0), NodeId(1)).unwrap();
        assert!(f.delivered > 10_000);
        let rel = (f.mean_delay_s - 0.2).abs() / 0.2;
        assert!(rel < 0.05, "mean {} vs 0.2 (rel {rel})", f.mean_delay_s);
        // Jitter (variance) should approach 1/(mu-lambda)^2 = 0.04.
        let relv = (f.jitter_s2 - 0.04).abs() / 0.04;
        assert!(relv < 0.15, "var {} vs 0.04 (rel {relv})", f.jitter_s2);
    }

    #[test]
    fn utilization_measured_close_to_offered() {
        let (g, r) = one_link_graph(10_000.0);
        let tm = single_flow_tm(2, 0, 1, 6_000.0);
        let cfg = SimConfig {
            duration_s: 2_000.0,
            warmup_s: 100.0,
            seed: 7,
            ..SimConfig::default()
        };
        let res = simulate(&g, &r, &tm, &cfg).unwrap();
        let fwd = g.link_between(NodeId(0), NodeId(1)).unwrap();
        let util = res.link_utilization[fwd.0];
        assert!((util - 0.6).abs() < 0.05, "util {util}");
        // Reverse link idle.
        let rev = g.link_between(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(res.link_utilization[rev.0], 0.0);
    }

    #[test]
    fn telemetry_emits_one_simrun_event_per_run() {
        let (g, r) = one_link_graph(10_000.0);
        let tm = single_flow_tm(2, 0, 1, 5_000.0);
        let tel = Telemetry::in_memory("simnet", "test");
        let cfg = SimConfig {
            duration_s: 50.0,
            warmup_s: 5.0,
            telemetry: tel.clone(),
            ..SimConfig::default()
        };
        let res = simulate(&g, &r, &tm, &cfg).unwrap();
        let runs: Vec<_> = tel
            .records()
            .into_iter()
            .filter(|rec| rec.event.kind() == "SimRun")
            .collect();
        assert_eq!(runs.len(), 1);
        match &runs[0].event {
            Event::SimRun {
                events,
                packets_generated,
                heap_high_water,
                wall_s,
                ..
            } => {
                assert_eq!(*events, res.events_processed);
                assert_eq!(*packets_generated, res.total_packets);
                assert!(*heap_high_water >= 1);
                assert!(*wall_s > 0.0);
            }
            other => panic!("expected SimRun, got {other:?}"),
        }
        assert_eq!(tel.counter("sim.runs"), 1);
        assert_eq!(tel.counter("sim.events"), res.events_processed);
    }

    #[test]
    fn disabled_telemetry_emits_nothing() {
        let (g, r) = one_link_graph(10_000.0);
        let tm = single_flow_tm(2, 0, 1, 5_000.0);
        let cfg = SimConfig {
            duration_s: 30.0,
            warmup_s: 3.0,
            ..SimConfig::default()
        };
        assert!(!cfg.telemetry.enabled());
        let res = simulate(&g, &r, &tm, &cfg).unwrap();
        assert!(res.total_packets > 0);
        assert!(cfg.telemetry.records().is_empty());
    }

    #[test]
    fn finite_buffer_drops_under_overload() {
        // Offered 150% of capacity with a 5-packet buffer: heavy loss.
        let (g, r) = one_link_graph(10_000.0);
        let tm = single_flow_tm(2, 0, 1, 15_000.0);
        let cfg = SimConfig {
            duration_s: 500.0,
            warmup_s: 50.0,
            buffer_pkts: Some(5),
            seed: 3,
            ..SimConfig::default()
        };
        let res = simulate(&g, &r, &tm, &cfg).unwrap();
        let f = res.flow(NodeId(0), NodeId(1)).unwrap();
        assert!(f.dropped > 0, "expected drops");
        // M/M/1/K loss for rho=1.5, K=5: (1-r)r^K/(1-r^(K+1)) ~ 0.36
        let p = f.drop_prob();
        assert!((p - 0.36).abs() < 0.08, "drop prob {p}");
        // Delivered delay bounded by buffer: <= K * service-ish (loose x10).
        assert!(f.mean_delay_s < 5.0 * 0.1 * 10.0);
    }

    #[test]
    fn infinite_buffer_never_drops() {
        let g = nsfnet();
        let r = shortest_path_routing(&g).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let tm = routenet_netgraph::traffic::sample_traffic_matrix(
            &g,
            &r,
            &routenet_netgraph::TrafficModel::Uniform { min_frac: 0.1 },
            0.7,
            &mut rng,
        );
        let cfg = SimConfig {
            duration_s: 60.0,
            warmup_s: 5.0,
            seed: 11,
            ..SimConfig::default()
        };
        let res = simulate(&g, &r, &tm, &cfg).unwrap();
        assert!(res.flows.iter().all(|f| f.dropped == 0));
        assert_eq!(res.flows.len(), 14 * 13);
        assert!(res.total_packets > 0);
        assert!(res.events_processed > res.total_packets);
    }

    #[test]
    fn same_seed_same_result() {
        let g = nsfnet();
        let r = shortest_path_routing(&g).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let tm = routenet_netgraph::traffic::sample_traffic_matrix(
            &g,
            &r,
            &routenet_netgraph::TrafficModel::Gravity,
            0.5,
            &mut rng,
        );
        let cfg = SimConfig {
            duration_s: 30.0,
            warmup_s: 3.0,
            seed: 99,
            ..SimConfig::default()
        };
        let a = simulate(&g, &r, &tm, &cfg).unwrap();
        let b = simulate(&g, &r, &tm, &cfg).unwrap();
        assert_eq!(a.total_packets, b.total_packets);
        for (fa, fb) in a.flows.iter().zip(&b.flows) {
            assert_eq!(fa.delivered, fb.delivered);
            assert_eq!(fa.mean_delay_s, fb.mean_delay_s);
            assert_eq!(fa.jitter_s2, fb.jitter_s2);
        }
    }

    #[test]
    fn different_seed_different_result() {
        let (g, r) = one_link_graph(10_000.0);
        let tm = single_flow_tm(2, 0, 1, 5_000.0);
        let mut cfg = SimConfig {
            duration_s: 100.0,
            warmup_s: 10.0,
            ..SimConfig::default()
        };
        cfg.seed = 1;
        let a = simulate(&g, &r, &tm, &cfg).unwrap();
        cfg.seed = 2;
        let b = simulate(&g, &r, &tm, &cfg).unwrap();
        assert_ne!(
            a.flow(NodeId(0), NodeId(1)).unwrap().mean_delay_s,
            b.flow(NodeId(0), NodeId(1)).unwrap().mean_delay_s
        );
    }

    #[test]
    fn onoff_is_burstier_than_poisson() {
        let (g, r) = one_link_graph(10_000.0);
        let tm = single_flow_tm(2, 0, 1, 4_000.0);
        let base = SimConfig {
            duration_s: 3_000.0,
            warmup_s: 100.0,
            seed: 13,
            ..SimConfig::default()
        };
        let poisson = simulate(&g, &r, &tm, &base).unwrap();
        let onoff_cfg = SimConfig {
            arrivals: ArrivalProcess::OnOff {
                on_mean_s: 2.0,
                off_mean_s: 2.0,
            },
            ..base
        };
        let onoff = simulate(&g, &r, &tm, &onoff_cfg).unwrap();
        let dp = poisson.flow(NodeId(0), NodeId(1)).unwrap();
        let do_ = onoff.flow(NodeId(0), NodeId(1)).unwrap();
        // Average rates comparable (within 15%)...
        let ratio = do_.delivered as f64 / dp.delivered as f64;
        assert!((0.85..1.15).contains(&ratio), "rate ratio {ratio}");
        // ...but bursty arrivals queue more.
        assert!(
            do_.mean_delay_s > dp.mean_delay_s,
            "onoff {} <= poisson {}",
            do_.mean_delay_s,
            dp.mean_delay_s
        );
    }

    #[test]
    fn bimodal_sizes_preserve_mean() {
        let (g, r) = one_link_graph(100_000.0); // fast link: ~pure service
        let tm = single_flow_tm(2, 0, 1, 1_000.0);
        let cfg = SimConfig {
            duration_s: 3_000.0,
            warmup_s: 10.0,
            size_dist: SizeDistribution::Bimodal {
                p_small: 0.7,
                small_frac: 0.3,
            },
            seed: 21,
            ..SimConfig::default()
        };
        let res = simulate(&g, &r, &tm, &cfg).unwrap();
        let f = res.flow(NodeId(0), NodeId(1)).unwrap();
        // At ~1% load delay ~= mean service time = mean_size / cap = 0.01 s.
        assert!(
            (f.mean_delay_s - 0.01).abs() < 0.002,
            "mean {}",
            f.mean_delay_s
        );
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let (g, r) = one_link_graph(10_000.0);
        let tm = single_flow_tm(2, 0, 1, 100.0);
        for cfg in [
            SimConfig {
                duration_s: 0.0,
                ..SimConfig::default()
            },
            SimConfig {
                warmup_s: 500.0,
                ..SimConfig::default()
            },
            SimConfig {
                mean_pkt_size_bits: -1.0,
                ..SimConfig::default()
            },
            SimConfig {
                buffer_pkts: Some(0),
                ..SimConfig::default()
            },
            SimConfig {
                size_dist: SizeDistribution::Bimodal {
                    p_small: 1.5,
                    small_frac: 0.3,
                },
                ..SimConfig::default()
            },
            SimConfig {
                arrivals: ArrivalProcess::OnOff {
                    on_mean_s: 0.0,
                    off_mean_s: 1.0,
                },
                ..SimConfig::default()
            },
        ] {
            assert!(matches!(
                simulate(&g, &r, &tm, &cfg),
                Err(SimError::BadConfig(_))
            ));
        }
    }

    /// A graph edited through `adj_link_mut` (or deserialized) skips
    /// `add_link`'s checks; a zero capacity would give NaN delays.
    #[test]
    fn path_link_without_positive_capacity_rejected() {
        let (mut g, r) = one_link_graph(10_000.0);
        let tm = single_flow_tm(2, 0, 1, 1_000.0);
        let lid = g.link_between(NodeId(0), NodeId(1)).unwrap();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            g.adj_link_mut(lid).capacity_bps = bad;
            assert!(
                matches!(
                    simulate(&g, &r, &tm, &SimConfig::default()),
                    Err(SimError::BadConfig(_))
                ),
                "capacity_bps = {bad}"
            );
        }
    }

    /// A negative propagation delay would give negative mean delays.
    #[test]
    fn path_link_with_negative_prop_delay_rejected() {
        let (mut g, r) = one_link_graph(10_000.0);
        let tm = single_flow_tm(2, 0, 1, 1_000.0);
        let lid = g.link_between(NodeId(0), NodeId(1)).unwrap();
        for bad in [-5.0, f64::NAN, f64::INFINITY] {
            g.adj_link_mut(lid).prop_delay_s = bad;
            assert!(
                matches!(
                    simulate(&g, &r, &tm, &SimConfig::default()),
                    Err(SimError::BadConfig(_))
                ),
                "prop_delay_s = {bad}"
            );
        }
    }

    #[test]
    fn tm_size_mismatch_rejected() {
        let (g, r) = one_link_graph(10_000.0);
        let tm = TrafficMatrix::zeros(5);
        assert!(matches!(
            simulate(&g, &r, &tm, &SimConfig::default()),
            Err(SimError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn multihop_delay_exceeds_single_hop() {
        let g = nsfnet();
        let r = shortest_path_routing(&g).unwrap();
        // Two flows with equal demand: one 1-hop, one multi-hop.
        let mut tm = TrafficMatrix::zeros(14);
        tm.set_demand(NodeId(0), NodeId(1), 3_000.0); // adjacent
                                                      // find a pair with >= 3 hops
        let far = g
            .node_pairs()
            .find(|(s, d)| r.hops(*s, *d) >= 3 && *s == NodeId(0))
            .expect("NSFNET has distant pairs");
        tm.set_demand(far.0, far.1, 3_000.0);
        let cfg = SimConfig {
            duration_s: 500.0,
            warmup_s: 50.0,
            seed: 17,
            ..SimConfig::default()
        };
        let res = simulate(&g, &r, &tm, &cfg).unwrap();
        let near = res.flow(NodeId(0), NodeId(1)).unwrap();
        let farf = res.flow(far.0, far.1).unwrap();
        assert!(farf.mean_delay_s > near.mean_delay_s);
    }
}
