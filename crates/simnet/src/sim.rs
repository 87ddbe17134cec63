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
use std::collections::BinaryHeap;
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
    /// [`Event::SimRun`] with cost metrics (events/s, packet counts, heap
    /// high-water mark, wall-clock). Never serialized (`#[serde(skip)]`)
    /// and never consulted inside the event loop — the per-event counters
    /// aggregate locally and flush once at run end.
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

/// Totally ordered finite f64 for the event heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Time(f64);

impl Eq for Time {}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> Ordering {
        // total_cmp needs no panic path; event times are kept finite by the
        // debug_assert at every push, and a hypothetical NaN would sort at a
        // fixed position instead of corrupting the heap.
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// Generate the next packet of `flow` and schedule its successor.
    SourceArrival { flow: u32 },
    /// A packet reaches the queue of `path[hop]` of its flow.
    HopArrive {
        flow: u32,
        hop: u16,
        size_bits: f64,
        gen_time: f64,
    },
}

struct HeapEvent {
    time: Time,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for HeapEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for HeapEvent {}

impl Ord for HeapEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert for earliest-first, tie-break on
        // insertion sequence for full determinism.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for HeapEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
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
    /// Scheduled departure times of queued/in-service packets (min-heap),
    /// pruned lazily; length = current system occupancy.
    departures: BinaryHeap<std::cmp::Reverse<Time>>,
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
    // flow ids fit the compact u32 event encoding, hop counters fit u16, and
    // all path link ids resolve against this graph.
    if u32::try_from(flows.len()).is_err() {
        return Err(SimError::BadConfig(format!(
            "{} flows exceed the u32 event encoding",
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
        if let Some(&lid) = f.path.iter().find(|l| l.0 >= g.n_links()) {
            return Err(SimError::BadConfig(format!(
                "routing path for {}->{} references {lid} outside the graph",
                f.src, f.dst
            )));
        }
    }

    let mut links: Vec<LinkState> = g
        .links()
        .map(|(_, l)| LinkState {
            capacity_bps: l.capacity_bps,
            prop_delay_s: l.prop_delay_s,
            busy_until: 0.0,
            departures: BinaryHeap::new(),
            busy_time_s: 0.0,
            sojourn_time_s: 0.0,
            sojourn_count: 0,
        })
        .collect();

    let mut heap: BinaryHeap<HeapEvent> = BinaryHeap::new();
    let mut seq: u64 = 0;
    let push = |heap: &mut BinaryHeap<HeapEvent>, seq: &mut u64, time: f64, kind: EventKind| {
        debug_assert!(time.is_finite());
        heap.push(HeapEvent {
            time: Time(time),
            seq: *seq,
            kind,
        });
        *seq += 1;
    };

    // Initial arrivals.
    for (i, f) in flows.iter_mut().enumerate() {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "flow count validated against u32::MAX above"
        )]
        if f.rate_pps > 0.0 {
            let t = next_arrival_time(0.0, f, &cfg.arrivals, &mut rng);
            push(
                &mut heap,
                &mut seq,
                t,
                EventKind::SourceArrival { flow: i as u32 },
            );
        }
    }

    let mut events_processed: u64 = 0;
    let mut total_packets: u64 = 0;
    // Telemetry cost metrics aggregate into plain locals: the event loop
    // never calls into the registry (overhead budget; `tests/alloc_counts.rs`
    // pins that the loop does not allocate per event). The heap high-water
    // compare is unconditional — cheaper than a branch on the telemetry
    // handle and identical for every run.
    let mut heap_high_water: usize = heap.len();
    let wall_start = cfg.telemetry.enabled().then(Instant::now);

    while let Some(HeapEvent {
        time: Time(now),
        kind,
        ..
    }) = heap.pop()
    {
        events_processed += 1;
        heap_high_water = heap_high_water.max(heap.len() + 1);
        match kind {
            EventKind::SourceArrival { flow } => {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "events only carry flow ids minted from this flows vec"
                )]
                let f = &mut flows[flow as usize];
                // Generate this packet (if within horizon) and schedule next.
                if now < cfg.duration_s {
                    let size = sample_size(cfg, &mut rng);
                    total_packets += 1;
                    push(
                        &mut heap,
                        &mut seq,
                        now,
                        EventKind::HopArrive {
                            flow,
                            hop: 0,
                            size_bits: size,
                            gen_time: now,
                        },
                    );
                    let t = next_arrival_time(now, f, &cfg.arrivals, &mut rng);
                    if t < cfg.duration_s {
                        push(&mut heap, &mut seq, t, EventKind::SourceArrival { flow });
                    }
                }
            }
            EventKind::HopArrive {
                flow,
                hop,
                size_bits,
                gen_time,
            } => {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "events only carry flow ids minted from this flows vec"
                )]
                let f = &mut flows[flow as usize];
                let measured = gen_time >= cfg.warmup_s;
                if hop as usize == f.path.len() {
                    // Delivered to destination.
                    if measured {
                        f.acc.record(now - gen_time);
                    }
                    continue;
                }
                #[expect(
                    clippy::indexing_slicing,
                    reason = "hop < path.len(): the delivery check above continues at =="
                )]
                let lid = f.path[hop as usize];
                #[expect(
                    clippy::indexing_slicing,
                    reason = "path link ids validated against g.n_links() at entry"
                )]
                let link = &mut links[lid.0];
                // Lazily prune departures that already happened.
                while let Some(std::cmp::Reverse(Time(t))) = link.departures.peek() {
                    if *t <= now {
                        link.departures.pop();
                    } else {
                        break;
                    }
                }
                if let Some(cap) = cfg.buffer_pkts {
                    if link.departures.len() >= cap {
                        if measured {
                            f.dropped += 1;
                        }
                        continue;
                    }
                }
                debug_assert!(
                    link.capacity_bps > 0.0,
                    "graph links carry positive capacity"
                );
                let service = size_bits / link.capacity_bps;
                let start = now.max(link.busy_until);
                let depart = start + service;
                link.busy_until = depart;
                link.departures.push(std::cmp::Reverse(Time(depart)));
                // Utilization accounting must clip the *service interval* to
                // the measurement window, not gate on when the packet was
                // generated: a pre-warmup packet served inside the window
                // contributes its in-window part, and a measured packet
                // whose service drains past the horizon contributes only up
                // to `duration_s`. Gating on `measured` both missed the
                // former and over-counted the latter, producing utilization
                // > 1 under overload (previously masked by a `.min(1.0)`).
                let overlap = depart.min(cfg.duration_s) - start.max(cfg.warmup_s);
                if overlap > 0.0 {
                    link.busy_time_s += overlap;
                }
                if measured {
                    link.sojourn_time_s += depart - now;
                    link.sojourn_count += 1;
                }
                push(
                    &mut heap,
                    &mut seq,
                    depart + link.prop_delay_s,
                    EventKind::HopArrive {
                        flow,
                        hop: hop + 1,
                        size_bits,
                        gen_time,
                    },
                );
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
