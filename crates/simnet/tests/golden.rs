//! Golden simulator output: fixed-seed runs must produce the same
//! [`SimResult`] bytes as when these constants were pinned. Every field is
//! hashed, floats as their raw `f64` bits, so a change to the event loop
//! that reorders a single pair of events, draws the RNG in another order or
//! rounds one sum differently fails here, even where the label would look
//! the same to four digits.
//!
//! Two groups of runs:
//! - NSFNET under every arrival process × packet-size distribution ×
//!   buffer (infinite, 4 packets): the loop as the labels use it, drops
//!   included.
//! - A 3-node line with deterministic arrivals and sizes whose event times
//!   are exact binary fractions, so many events share a time and only the
//!   insertion-sequence tie-break decides their order. A packet's first hop
//!   there often arrives at the same instant as another flow's packet coming
//!   from the previous link.
//!
//! The constants are never updated to follow a code change: a change that
//! moves them changes what the simulator computes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use routenet_netgraph::routing::shortest_path_routing;
use routenet_netgraph::topology::{assign_capacities, nsfnet, CapacityScheme};
use routenet_netgraph::traffic::{sample_traffic_matrix, TrafficModel};
use routenet_netgraph::{Graph, NodeId, RoutingScheme, TrafficMatrix};
use routenet_simnet::sim::{simulate, ArrivalProcess, SimConfig, SizeDistribution};
use routenet_simnet::SimResult;

/// CRC-32 (IEEE 802.3, reflected), bit by bit: the tests need no table.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 == 1 {
                (c >> 1) ^ 0xEDB8_8320
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// Every field of `res`, little-endian, floats as raw bits.
fn result_crc(res: &SimResult) -> u32 {
    let mut b = Vec::new();
    for f in &res.flows {
        b.extend_from_slice(&(f.src.0 as u64).to_le_bytes());
        b.extend_from_slice(&(f.dst.0 as u64).to_le_bytes());
        b.extend_from_slice(&f.delivered.to_le_bytes());
        b.extend_from_slice(&f.dropped.to_le_bytes());
        b.extend_from_slice(&f.mean_delay_s.to_bits().to_le_bytes());
        b.extend_from_slice(&f.jitter_s2.to_bits().to_le_bytes());
    }
    for v in [
        &res.link_utilization,
        &res.link_mean_occupancy,
        &res.link_mean_sojourn_s,
    ] {
        b.extend_from_slice(&(v.len() as u64).to_le_bytes());
        for x in v {
            b.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    b.extend_from_slice(&res.total_packets.to_le_bytes());
    b.extend_from_slice(&res.events_processed.to_le_bytes());
    crc32(&b)
}

/// One pinned run: `(events_processed, total_packets, CRC of every field)`.
type Pin = (u64, u64, u32);

const ARRIVALS: [ArrivalProcess; 3] = [
    ArrivalProcess::Poisson,
    ArrivalProcess::Deterministic,
    ArrivalProcess::OnOff {
        on_mean_s: 1.0,
        off_mean_s: 1.0,
    },
];

const SIZES: [SizeDistribution; 3] = [
    SizeDistribution::Exponential,
    SizeDistribution::Deterministic,
    SizeDistribution::Bimodal {
        p_small: 0.7,
        small_frac: 0.3,
    },
];

const BUFFERS: [Option<usize>; 2] = [None, Some(4)];

/// NSFNET runs in `ARRIVALS` × `SIZES` × `BUFFERS` order.
const NSFNET_PINS: [Pin; 18] = [
    (25544, 6184, 0x7805_f8a9),
    (24597, 6184, 0xd411_0021),
    (25491, 6203, 0x6e2b_3f45),
    (25075, 6203, 0x45ee_dd77),
    (25544, 6184, 0xae50_d8de),
    (24501, 6184, 0x6c88_e88a),
    (25715, 6244, 0x64b1_28c5),
    (25030, 6244, 0x823c_b391),
    (25715, 6244, 0x5915_81eb),
    (25616, 6244, 0x72f7_57c2),
    (25715, 6244, 0xb75b_a490),
    (24993, 6244, 0x355a_daf8),
    (26538, 6416, 0x9732_2f14),
    (25368, 6416, 0x4902_2057),
    (25958, 6298, 0x9bee_4581),
    (25470, 6298, 0xed68_3ca4),
    (26538, 6416, 0x11e0_b549),
    (25306, 6416, 0x1f6f_79e1),
];

/// 3-node line runs, infinite buffer then a 1-packet buffer.
const LINE_PINS: [Pin; 2] = [(663, 195, 0x85bd_0ded), (606, 195, 0x9553_151c)];

/// NSFNET with KDN capacities, shortest-path routing and a uniform traffic
/// matrix whose bottleneck link runs at 90%, so 4-packet buffers drop.
fn nsfnet_scenario() -> (Graph, RoutingScheme, TrafficMatrix) {
    let mut rng = StdRng::seed_from_u64(2019);
    let mut g = nsfnet();
    assign_capacities(&mut g, &CapacityScheme::kdn_default(), &mut rng);
    let r = shortest_path_routing(&g).unwrap();
    let model = TrafficModel::Uniform { min_frac: 0.25 };
    let tm = sample_traffic_matrix(&g, &r, &model, 0.9, &mut rng);
    (g, r, tm)
}

/// Nodes 0 - 1 - 2 at 8 kbit/s, so a 1000-bit packet takes 0.125 s to
/// send; link 0 - 1 adds 0.875 s of propagation delay and link 1 - 2 adds
/// 0.125 s. Every flow sends 0.5, 1 or 2 packets a second, so every event
/// time is an exact multiple of 0.125 s and many coincide. Flow 0 -> 2
/// reaches link 1 -> 2 exactly 1 s after it is sent, at the same instant as
/// flow 1 -> 2 sends a packet onto that link; its hop event was queued after
/// that source arrival was, so the insertion sequence alone decides which of
/// the two packets the link serves first.
fn line_scenario() -> (Graph, RoutingScheme, TrafficMatrix) {
    let mut g = Graph::new("line3", 3);
    g.add_duplex(NodeId(0), NodeId(1), 8_000.0, 0.875).unwrap();
    g.add_duplex(NodeId(1), NodeId(2), 8_000.0, 0.125).unwrap();
    let r = shortest_path_routing(&g).unwrap();
    let mut tm = TrafficMatrix::zeros(3);
    for (s, d, bps) in [
        (0, 2, 1_000.0),
        (1, 2, 500.0),
        (2, 0, 1_000.0),
        (1, 0, 2_000.0),
        (2, 1, 500.0),
    ] {
        tm.set_demand(NodeId(s), NodeId(d), bps);
    }
    (g, r, tm)
}

fn pin((g, r, tm): &(Graph, RoutingScheme, TrafficMatrix), cfg: &SimConfig) -> Pin {
    let res = simulate(g, r, tm, cfg).unwrap();
    (res.events_processed, res.total_packets, result_crc(&res))
}

/// Compare every run with its pin; on a mismatch print the whole table so
/// the first differing run is easy to find.
fn check(name: &str, got: &[(String, Pin)], want: &[Pin]) {
    let same = got.len() == want.len() && got.iter().zip(want).all(|((_, g), w)| g == w);
    if !same {
        for (label, (events, packets, crc)) in got {
            eprintln!("{name} {label}: ({events}, {packets}, 0x{crc:08x})");
        }
    }
    assert!(same, "{name}: simulator output differs from its pin");
}

#[test]
fn nsfnet_results_match_pinned_hashes() {
    let scenario = nsfnet_scenario();
    let mut got = Vec::new();
    for arrivals in ARRIVALS {
        for size_dist in SIZES {
            for buffer_pkts in BUFFERS {
                let cfg = SimConfig {
                    duration_s: 60.0,
                    warmup_s: 6.0,
                    size_dist,
                    arrivals,
                    buffer_pkts,
                    seed: 5,
                    ..SimConfig::default()
                };
                let label = format!("{arrivals:?} {size_dist:?} {buffer_pkts:?}");
                got.push((label, pin(&scenario, &cfg)));
            }
        }
    }
    check("nsfnet", &got, &NSFNET_PINS);
}

#[test]
fn tied_event_times_match_pinned_hashes() {
    let scenario = line_scenario();
    let mut got = Vec::new();
    for buffer_pkts in [None, Some(1)] {
        let cfg = SimConfig {
            duration_s: 40.0,
            warmup_s: 4.0,
            size_dist: SizeDistribution::Deterministic,
            arrivals: ArrivalProcess::Deterministic,
            buffer_pkts,
            ..SimConfig::default()
        };
        got.push((format!("{buffer_pkts:?}"), pin(&scenario, &cfg)));
    }
    check("line", &got, &LINE_PINS);
}
